//! Order statistics over a run's rounds.

/// Median, quartiles and range of one metric's per-round values.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Smallest.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median — the value a run reports.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest.
    pub max: f64,
}

/// The `q`-quantile of sorted `v` by linear interpolation between the
/// two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let at = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = at.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        }
    }
}

/// Summarises `values` (order irrelevant).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        min: v.first().copied().unwrap_or(0.0),
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
        max: v.last().copied().unwrap_or(0.0),
    }
}
