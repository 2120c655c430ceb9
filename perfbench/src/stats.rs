//! Order statistics for latency samples.
//!
//! A tail percentile is only reported where the sample supports it: the
//! reported rank must leave at least [`MIN_BEYOND`] samples above it, so a
//! short run reports a lower percentile instead of its maximum. Every
//! [`Tail`] carries the percentile actually used and the sample count.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from a sample, with the provenance to interpret it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the reported rank.
    pub value: f64,
    /// The percentile actually reported, in (0, 1].
    pub percentile: f64,
    /// Sample count behind the value.
    pub samples: usize,
}

/// Nearest-rank percentile `target` of `sorted` (ascending), lowered to the
/// highest rank that leaves [`MIN_BEYOND`] samples above it. A sample too
/// small for that reports its maximum. `None` for an empty sample.
pub fn tail(sorted: &[f64], target: f64) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let wanted = ((target * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = if n > MIN_BEYOND { wanted.min(n - 1 - MIN_BEYOND) } else { n - 1 };
    Some(Tail { value: sorted[idx], percentile: (idx + 1) as f64 / n as f64, samples: n })
}

/// Median of an unsorted sample (mean of the middle two for even sizes);
/// 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts a sample ascending in place and returns it.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}
