//! Order statistics for the benchmark's own reporting.
//!
//! Every timing the benchmark prints is a median or a nearest-rank
//! percentile over raw samples; run-to-run spread uses the same quartile
//! rule as Python's `statistics.quantiles(values, n=4)` so the numbers
//! `compare` prints match what the acceptance driver computes.

/// Sorts `values` ascending (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an ascending slice (mean of the two middle samples for an
/// even count). `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. `None` below two samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// a metric's bound is judged against. `None` below two samples or for a
/// zero median.
pub fn spread(sorted: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(sorted)?;
    let m = median(sorted)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Sample count, minimum, median and maximum of a set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarises `values` (sorted in place). `None` when empty.
pub fn summarize(values: &mut [f64]) -> Option<Summary> {
    sort(values);
    Some(Summary {
        n: values.len(),
        min: *values.first()?,
        median: median(values)?,
        max: *values.last()?,
    })
}
