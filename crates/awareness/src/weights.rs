//! Temporal and combined awareness weightings (Mariani & Prinz's
//! "awareness about co-workers in cooperation support object databases").
//!
//! Asynchronous awareness needs a *temporal* metric — how recently
//! something happened — combined with the *spatial* metric of
//! [`crate::spatial`] and an artefact-relevance factor. The product is
//! the awareness weighting the paper describes (§4.2.1).

use std::collections::BTreeMap;

use odp_sim::time::{SimDuration, SimTime};

/// Exponential-decay recency weighting.
///
/// `weight = 0.5 ^ (elapsed / half_life)` — 1.0 for "just now", 0.5 after
/// one half-life, and so on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalDecay {
    /// Elapsed time at which the weight halves. Private: a zero value
    /// would make `weight` divide 0-by-0 into NaN, which `powf` and
    /// `clamp` propagate silently past every threshold comparison.
    half_life: SimDuration,
}

impl TemporalDecay {
    /// Creates a decay with the given half-life.
    ///
    /// # Panics
    ///
    /// Panics if `half_life` is zero.
    pub fn new(half_life: SimDuration) -> Self {
        assert!(!half_life.is_zero(), "half-life must be positive");
        TemporalDecay { half_life }
    }

    /// The configured half-life.
    pub fn half_life(&self) -> SimDuration {
        self.half_life
    }

    /// The weight of an event that happened at `event_time`, observed at
    /// `now`. Future events weigh 1.0; events older than ~1074
    /// half-lives weigh an exact 0.0 (`0.5^ratio` underflows past the
    /// smallest subnormal there and `powf`'s rounding is
    /// platform-dependent, so the result is pinned).
    pub fn weight(&self, event_time: SimTime, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(event_time);
        // A zero half-life can still arrive via deserialization, which
        // bypasses `new`'s assertion. 0/0 would be NaN — NaN fails the
        // underflow comparison below, survives `powf` and `clamp`, and
        // then fails *every* threshold comparison downstream, silently
        // suppressing all deliveries. Saturate instead: instant decay.
        if self.half_life.is_zero() {
            return if elapsed.is_zero() { 1.0 } else { 0.0 };
        }
        let ratio = elapsed.as_micros() as f64 / self.half_life.as_micros() as f64;
        if ratio >= 1074.0 {
            return 0.0;
        }
        0.5f64.powf(ratio).clamp(0.0, 1.0)
    }
}

/// Relevance of artefacts to each observer: a sparse map defaulting to a
/// configurable base value.
#[derive(Debug, Clone)]
pub struct RelevanceMap {
    base: f64,
    entries: BTreeMap<String, f64>,
}

impl RelevanceMap {
    /// Creates a map where unlisted artefacts weigh `base`.
    pub fn new(base: f64) -> Self {
        RelevanceMap {
            base: base.clamp(0.0, 1.0),
            entries: BTreeMap::new(),
        }
    }

    /// Declares interest in an artefact.
    pub fn set(&mut self, artefact: impl Into<String>, relevance: f64) {
        self.entries
            .insert(artefact.into(), relevance.clamp(0.0, 1.0));
    }

    /// The relevance of an artefact.
    pub fn get(&self, artefact: &str) -> f64 {
        self.entries.get(artefact).copied().unwrap_or(self.base)
    }
}

/// The combined awareness weighting: spatial × temporal × relevance.
///
/// # Examples
///
/// ```
/// use odp_awareness::weights::{combined_weight, RelevanceMap, TemporalDecay};
/// use odp_sim::time::{SimDuration, SimTime};
///
/// let decay = TemporalDecay::new(SimDuration::from_secs(60));
/// let mut relevance = RelevanceMap::new(0.2);
/// relevance.set("doc:intro", 1.0);
/// let w = combined_weight(
///     0.8,
///     decay.weight(SimTime::ZERO, SimTime::ZERO),
///     relevance.get("doc:intro"),
/// );
/// assert!((w - 0.8).abs() < 1e-9);
/// ```
pub fn combined_weight(spatial: f64, temporal: f64, relevance: f64) -> f64 {
    (spatial.clamp(0.0, 1.0)) * (temporal.clamp(0.0, 1.0)) * (relevance.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_halves_per_half_life() {
        let d = TemporalDecay::new(SimDuration::from_secs(10));
        let t0 = SimTime::ZERO;
        assert!((d.weight(t0, t0) - 1.0).abs() < 1e-9);
        assert!((d.weight(t0, SimTime::from_secs(10)) - 0.5).abs() < 1e-9);
        assert!((d.weight(t0, SimTime::from_secs(20)) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn future_events_weigh_full() {
        let d = TemporalDecay::new(SimDuration::from_secs(10));
        assert_eq!(d.weight(SimTime::from_secs(5), SimTime::ZERO), 1.0);
    }

    #[test]
    #[should_panic(expected = "half-life must be positive")]
    fn zero_half_life_panics() {
        TemporalDecay::new(SimDuration::ZERO);
    }

    #[test]
    fn relevance_defaults_and_overrides() {
        let mut r = RelevanceMap::new(0.3);
        r.set("doc:a", 0.9);
        r.set("doc:b", 5.0); // clamped
        assert_eq!(r.get("doc:a"), 0.9);
        assert_eq!(r.get("doc:b"), 1.0);
        assert_eq!(r.get("doc:zzz"), 0.3);
    }

    #[test]
    fn combined_weight_is_a_product_with_clamping() {
        assert_eq!(combined_weight(0.5, 0.5, 0.5), 0.125);
        assert_eq!(combined_weight(2.0, 1.0, 1.0), 1.0);
        assert_eq!(combined_weight(-1.0, 1.0, 1.0), 0.0);
        assert_eq!(combined_weight(1.0, 0.0, 1.0), 0.0);
    }

    /// Recorded proptest shrink (see
    /// `tests/spatial_properties.proptest-regressions`):
    /// `half_life_ms = 1, a_ms = 1075, b_ms = 0` drives the decay ratio
    /// to 1075 half-lives, where `0.5^ratio` underflows past the last
    /// f64 subnormal. The weight must stay an exact, in-range 0.0 and
    /// the multiplicative property must still hold.
    #[test]
    fn regression_deep_underflow_stays_bounded_and_multiplicative() {
        let d = TemporalDecay::new(SimDuration::from_millis(1));
        let t0 = SimTime::ZERO;
        let (a_ms, b_ms) = (1075u64, 0u64);
        let wa = d.weight(t0, SimTime::from_millis(a_ms));
        let wb = d.weight(t0, SimTime::from_millis(b_ms));
        let wab = d.weight(t0, SimTime::from_millis(a_ms + b_ms));
        assert_eq!(wa, 0.0, "0.5^1075 underflows; must pin to exact zero");
        assert_eq!(wb, 1.0);
        assert!((wab - wa * wb).abs() < 1e-9);
        for w in [wa, wb, wab] {
            assert!((0.0..=1.0).contains(&w));
        }
    }

    /// Regression: a zero half-life (reachable through deserialization,
    /// which skips `new`'s assertion) made `weight` compute `0/0 = NaN`;
    /// NaN slipped past the underflow guard, `powf` and `clamp`, then
    /// failed every `>= threshold` comparison, silently suppressing all
    /// deliveries. The weight must instead saturate: 1.0 at the event
    /// instant, 0.0 after.
    #[test]
    fn regression_zero_half_life_saturates_instead_of_nan() {
        let d = TemporalDecay {
            half_life: SimDuration::ZERO,
        };
        let w_now = d.weight(SimTime::ZERO, SimTime::ZERO);
        let w_later = d.weight(SimTime::ZERO, SimTime::from_micros(1));
        assert!(!w_now.is_nan() && !w_later.is_nan());
        assert_eq!(w_now, 1.0, "instant decay still weighs 'just now' fully");
        assert_eq!(w_later, 0.0, "anything older decays completely");
    }

    #[test]
    fn half_life_is_exposed_via_the_getter() {
        let d = TemporalDecay::new(SimDuration::from_secs(10));
        assert_eq!(d.half_life(), SimDuration::from_secs(10));
    }

    #[test]
    fn decay_is_monotone_in_elapsed_time() {
        let d = TemporalDecay::new(SimDuration::from_millis(500));
        let t0 = SimTime::ZERO;
        let mut prev = 2.0;
        for ms in [0u64, 100, 200, 400, 800, 1600] {
            let w = d.weight(t0, SimTime::from_millis(ms));
            assert!(w < prev, "not monotone at {ms}");
            prev = w;
        }
    }
}
