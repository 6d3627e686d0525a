//! Deterministic random number generation for simulations.
//!
//! Every stochastic decision in the simulator (jitter, loss, workload
//! arrival) draws from a [`DetRng`] seeded explicitly, so that a run is a
//! pure function of its configuration and seed.

use odp_fabric::SpanCarrier;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::time::SimDuration;

/// A deterministic random number generator for simulation use.
///
/// Wraps a seeded [`SmallRng`] and adds simulation-flavoured helpers
/// (jitter sampling, Bernoulli trials, exponential inter-arrival times).
///
/// # Examples
///
/// ```
/// use odp_sim::rng::DetRng;
///
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; used to give each actor its
    /// own stream so actor-local draws do not perturb each other.
    pub fn fork(&mut self) -> DetRng {
        DetRng::seed_from(self.next_u64())
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Mints a fresh root span: one draw for the trace id, then one for
    /// the span id. Ids come from the seeded stream — never a wallclock
    /// or OS entropy — so a run's whole span graph is a function of its
    /// seed.
    ///
    /// ```
    /// use odp_sim::rng::DetRng;
    ///
    /// let mut rng = DetRng::seed_from(7);
    /// let root = rng.span_root();
    /// let child = rng.span_child(&root);
    /// assert_eq!(child.trace_id, root.trace_id);
    /// assert_eq!(child.parent, Some(root.span_id));
    /// ```
    pub fn span_root(&mut self) -> SpanCarrier {
        let trace_id = self.next_u64();
        SpanCarrier::root(trace_id, self.next_u64())
    }

    /// Mints a child of `parent` in the same trace: one draw, the
    /// child's span id.
    pub fn span_child(&mut self, parent: &SpanCarrier) -> SpanCarrier {
        SpanCarrier::child_of(parent.trace_id, self.next_u64(), parent.span_id)
    }

    /// Returns a uniform value in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Returns a uniform index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick from an empty collection");
        self.inner.gen_range(0..len)
    }

    /// Bernoulli trial: returns true with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Samples symmetric uniform jitter in `[-max_jitter, +max_jitter]` and
    /// applies it to `base`, saturating at zero.
    pub fn jittered(&mut self, base: SimDuration, max_jitter: SimDuration) -> SimDuration {
        if max_jitter.is_zero() {
            return base;
        }
        let span = max_jitter.as_micros();
        let offset = self.range_u64(0, 2 * span + 1) as i64 - span as i64;
        let value = base.as_micros() as i64 + offset;
        SimDuration::from_micros(value.max(0) as u64)
    }

    /// Samples an exponentially distributed duration with the given mean;
    /// useful for Poisson arrival processes in workload generators.
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        // Inverse-CDF sampling; clamp u away from 0 to avoid ln(0).
        let u = self.unit_f64().max(1e-12);
        let sample = -(u.ln()) * mean.as_micros() as f64;
        SimDuration::from_micros(sample.min(u64::MAX as f64 / 2.0) as u64)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn minting_is_deterministic_per_seed() {
        let mut a = DetRng::seed_from(42);
        let mut b = DetRng::seed_from(42);
        let (ra, rb) = (a.span_root(), b.span_root());
        assert_eq!(ra, rb);
        assert_eq!(a.span_child(&ra), b.span_child(&rb));
        // Draw order is part of the contract: trace id first, then span id.
        let mut raw = DetRng::seed_from(42);
        assert_eq!((ra.trace_id, ra.span_id), (raw.next_u64(), raw.next_u64()));
    }

    #[test]
    fn forked_streams_are_deterministic_and_distinct() {
        let mut root1 = DetRng::seed_from(1);
        let mut root2 = DetRng::seed_from(1);
        let mut c1 = root1.fork();
        let mut c2 = root2.fork();
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut sibling = root1.fork();
        assert_ne!(c1.next_u64(), sibling.next_u64());
    }

    #[test]
    fn chance_handles_extremes() {
        let mut r = DetRng::seed_from(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let mut r = DetRng::seed_from(11);
        let base = SimDuration::from_micros(1_000);
        let jit = SimDuration::from_micros(200);
        for _ in 0..1_000 {
            let d = r.jittered(base, jit);
            assert!(d.as_micros() >= 800 && d.as_micros() <= 1_200, "{d}");
        }
    }

    #[test]
    fn jitter_saturates_at_zero() {
        let mut r = DetRng::seed_from(13);
        let base = SimDuration::from_micros(10);
        let jit = SimDuration::from_micros(1_000);
        for _ in 0..1_000 {
            let _ = r.jittered(base, jit); // must not underflow / panic
        }
    }

    #[test]
    fn exponential_mean_is_approximately_right() {
        let mut r = DetRng::seed_from(17);
        let mean = SimDuration::from_micros(10_000);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| r.exponential(mean).as_micros()).sum();
        let observed = total as f64 / n as f64;
        assert!(
            (observed - 10_000.0).abs() < 500.0,
            "observed mean {observed}"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seed_from(19);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
