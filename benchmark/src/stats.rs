//! Order statistics for small samples.
//!
//! Every figure the benchmark reports comes with the median, quartiles and
//! count of the series behind it. Runs hold fewer than 20 samples of most
//! things, so no tail percentile is claimed anywhere.
//!
//! A wall time's reported value is its *fast quartile*, not its median. On
//! the box the bounds were recorded on, interference comes in bursts that
//! only ever slow a rep down, and whole runs land in a burst: over ten runs
//! the median wall of `plan_sweep` spread 19% and of `thin_wide` 12%, their
//! first quartile 8% and 4%. A change to the program moves the whole
//! distribution, the fast quartile with it. Paired ratios, which a burst can
//! push either way, report their median.

use serde::{Deserialize, Serialize};

/// The reported value of one series, with its median, quartiles and
/// sample count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// The figure reported: the median, unless [`Summary::fast_low`] or
    /// [`Summary::fast_high`] chose the fast quartile.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single observation: quartiles collapse onto the value.
    pub fn single(value: f64) -> Self {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile distance as a share of the median — the spread the
    /// benchmark's bounds are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1).abs() / self.median.abs()
    }

    /// Reports the first quartile: the fast one of a series of times.
    pub fn fast_low(self) -> Summary {
        Summary {
            value: self.q1,
            ..self
        }
    }

    /// Reports the third quartile: the fast one of a series of rates.
    pub fn fast_high(self) -> Summary {
        Summary {
            value: self.q3,
            ..self
        }
    }

    /// The summary with every statistic mapped through a decreasing
    /// function (e.g. wall time → throughput), which swaps the quartiles.
    pub fn map_decreasing(&self, f: impl Fn(f64) -> f64) -> Summary {
        Summary {
            value: f(self.value),
            median: f(self.median),
            q1: f(self.q3),
            q3: f(self.q1),
            n: self.n,
        }
    }
}

/// Median of a non-empty series (mean of the two middle values when the
/// count is even).
///
/// # Panics
///
/// Panics on an empty series or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them, so spreads computed here agree with the driver's. A series
/// of one value has both quartiles on that value.
///
/// # Panics
///
/// Panics on an empty series or a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| -> f64 {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - 4j.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and count of a non-empty series.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    let median = median(values);
    Summary {
        value: median,
        median,
        q1,
        q3,
        n: values.len(),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty series");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark values are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 4.0);
        assert!((s.spread() - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        assert_eq!(Summary::single(3.0).spread(), 0.0);
    }

    #[test]
    fn decreasing_map_swaps_quartiles() {
        let walls = summarize(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        let rates = walls.map_decreasing(|w| 100.0 / w);
        assert_eq!((rates.value, rates.median), (25.0, 25.0));
        assert!(rates.q1 < rates.median && rates.median < rates.q3);
        // The fast quartile of the walls is the fast quartile of the rates.
        let fast = walls.fast_low().map_decreasing(|w| 100.0 / w);
        assert_eq!(fast.value, 100.0 / 1.5);
        assert_eq!(fast.value, rates.fast_high().value);
    }
}
