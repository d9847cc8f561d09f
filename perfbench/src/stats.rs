//! Order statistics over timing samples.

/// Percentiles the tail is chosen from, in tenths of a percent (p50,
/// p90, p95, p99, p99.9), highest last.
pub const TAIL_LADDER: [usize; 5] = [500, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: a nearest-rank percentile and how many
/// samples lie beyond it.
#[derive(Clone, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 when no ladder rung qualifies).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (nearest rank). A run too short
/// for any rung (fewer than 20 samples) reports its maximum as `p100`, so
/// the value is always a measured sample and the label says what it is.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut best = Tail { percentile: 100.0, value: v[n - 1], beyond: 0, samples: n };
    for &permille in &TAIL_LADDER {
        // Nearest rank, ⌈permille · n / 1000⌉, in exact integer arithmetic.
        let rank = (permille * n).div_ceil(1000).max(1);
        let beyond = n - rank;
        if beyond >= TAIL_MIN_BEYOND {
            let percentile = permille as f64 / 10.0;
            best = Tail { percentile, value: v[rank - 1], beyond, samples: n };
        }
    }
    best
}

/// `part / whole`, or 0 when nothing was measured against.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
