//! Measurement primitives: counters and latency histograms.
//!
//! Experiments read their results out of a [`MetricsRegistry`] after a run.
//! Histograms keep raw samples (simulations are small enough) so percentile
//! queries are exact rather than bucketed approximations.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimDuration;

/// An exact-sample histogram of durations.
///
/// # Examples
///
/// ```
/// use odp_sim::metrics::Histogram;
/// use odp_sim::time::SimDuration;
///
/// let mut h = Histogram::new();
/// for ms in [1u64, 2, 3, 4, 5] {
///     h.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(h.percentile(0.5), SimDuration::from_millis(3));
/// assert_eq!(h.max(), SimDuration::from_millis(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_micros());
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Returns the exact `q`-quantile (`q` in `[0,1]`) using the
    /// nearest-rank method. Returns zero on an empty histogram.
    pub fn percentile(&mut self, q: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        SimDuration::from_micros(self.samples[rank.min(self.samples.len() - 1)])
    }

    /// Arithmetic mean of the samples (zero if empty).
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.samples.iter().map(|&s| s as u128).sum();
        SimDuration::from_micros((total / self.samples.len() as u128) as u64)
    }

    /// Smallest sample (zero if empty).
    pub fn min(&mut self) -> SimDuration {
        self.ensure_sorted();
        SimDuration::from_micros(self.samples.first().copied().unwrap_or(0))
    }

    /// Largest sample (zero if empty).
    pub fn max(&mut self) -> SimDuration {
        self.ensure_sorted();
        SimDuration::from_micros(self.samples.last().copied().unwrap_or(0))
    }

    /// Sample standard deviation in microseconds (zero if fewer than two
    /// samples). Used to report jitter.
    pub fn stddev_micros(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.samples.iter().map(|&s| s as f64).sum::<f64>() / n as f64;
        let var = self
            .samples
            .iter()
            .map(|&s| {
                let d = s as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (n as f64 - 1.0);
        var.sqrt()
    }

    /// Produces a compact summary of the distribution.
    pub fn summary(&mut self) -> Summary {
        Summary {
            count: self.len() as u64,
            mean: self.mean(),
            min: self.min(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            max: self.max(),
            stddev_micros: self.stddev_micros(),
        }
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

impl Extend<SimDuration> for Histogram {
    fn extend<T: IntoIterator<Item = SimDuration>>(&mut self, iter: T) {
        for d in iter {
            self.record(d);
        }
    }
}

impl FromIterator<SimDuration> for Histogram {
    fn from_iter<T: IntoIterator<Item = SimDuration>>(iter: T) -> Self {
        let mut h = Histogram::new();
        h.extend(iter);
        h
    }
}

/// A compact statistical summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Minimum.
    pub min: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// Maximum.
    pub max: SimDuration,
    /// Sample standard deviation, in microseconds.
    pub stddev_micros: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p95={} p99={} max={} sd={:.1}us",
            self.count, self.mean, self.p50, self.p95, self.p99, self.max, self.stddev_micros
        )
    }
}

/// A named collection of counters and histograms for one simulation run.
///
/// # Examples
///
/// ```
/// use odp_sim::metrics::MetricsRegistry;
/// use odp_sim::time::SimDuration;
///
/// let mut m = MetricsRegistry::new();
/// m.incr("messages.sent");
/// m.add("bytes.sent", 512);
/// m.observe("latency", SimDuration::from_millis(3));
/// assert_eq!(m.counter("messages.sent"), 1);
/// assert_eq!(m.histogram("latency").unwrap().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to the named counter, creating it at zero if absent.
    /// Only the first touch of a name allocates (its key).
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(count) => *count += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Reads the named counter (zero if it was never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one duration sample into the named histogram. Only the
    /// first sample under a name allocates a key; later ones cost the
    /// sample buffer's amortised growth.
    pub fn observe(&mut self, name: &str, d: SimDuration) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(d),
            None => {
                let mut h = Histogram::new();
                h.record(d);
                self.histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// Returns the named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges `other` into `self` (counters add, histograms concatenate).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values_us: &[u64]) -> Histogram {
        values_us
            .iter()
            .map(|&v| SimDuration::from_micros(v))
            .collect()
    }

    #[test]
    fn empty_histogram_is_safe() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.99), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h.stddev_micros(), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut h = hist(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(h.percentile(0.0), SimDuration::from_micros(10));
        assert_eq!(h.percentile(0.5), SimDuration::from_micros(50));
        assert_eq!(h.percentile(0.9), SimDuration::from_micros(90));
        assert_eq!(h.percentile(1.0), SimDuration::from_micros(100));
    }

    #[test]
    fn percentile_clamps_out_of_range_q() {
        let mut h = hist(&[5, 10]);
        assert_eq!(h.percentile(-1.0), SimDuration::from_micros(5));
        assert_eq!(h.percentile(2.0), SimDuration::from_micros(10));
    }

    #[test]
    fn mean_and_stddev() {
        let h = hist(&[10, 20, 30]);
        assert_eq!(h.mean(), SimDuration::from_micros(20));
        assert!((h.stddev_micros() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn summary_reports_all_fields() {
        let mut h = hist(&[1, 2, 3, 4]);
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, SimDuration::from_micros(1));
        assert_eq!(s.max, SimDuration::from_micros(4));
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn merge_concatenates() {
        let mut a = hist(&[1, 2]);
        let b = hist(&[3]);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.max(), SimDuration::from_micros(3));
    }

    #[test]
    fn registry_counters_and_histograms() {
        let mut m = MetricsRegistry::new();
        m.incr("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("missing"), 0);
        m.observe("lat", SimDuration::from_micros(9));
        assert_eq!(m.histogram("lat").unwrap().len(), 1);
        assert!(m.histogram("none").is_none());
    }

    #[test]
    fn registry_merge_adds_counters() {
        let mut a = MetricsRegistry::new();
        a.add("c", 2);
        a.observe("h", SimDuration::from_micros(1));
        let mut b = MetricsRegistry::new();
        b.add("c", 3);
        b.observe("h", SimDuration::from_micros(2));
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.histogram("h").unwrap().len(), 2);
    }

    #[test]
    fn registry_iterates_in_name_order() {
        let mut m = MetricsRegistry::new();
        m.incr("b");
        m.incr("a");
        let names: Vec<_> = m.counters().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
