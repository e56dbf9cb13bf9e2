//! Order statistics and the noise line printed beside every metric.

/// Linear-interpolated quantile of already sorted samples (`0 ≤ q ≤ 1`).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The spread of one metric's samples: the reported value is the `q`
/// quantile (0.5 for medians, 0.9 for tail latencies).
#[derive(Debug, Clone)]
pub struct Summary {
    /// Quantile the metric reports.
    pub q: f64,
    /// The reported value (the `q` quantile).
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// Samples strictly above the reported value.
    pub beyond: usize,
}

impl Summary {
    pub fn of(samples: &[f64], q: f64) -> Summary {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let value = quantile_sorted(&sorted, q);
        Summary {
            q,
            value,
            median: quantile_sorted(&sorted, 0.5),
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
            n: sorted.len(),
            beyond: sorted.iter().filter(|&&v| v > value).count(),
        }
    }

    /// A single measured value (a count, or a ratio of two totals).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value], 0.5)
    }
}

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples, 0.5).value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_and_tail_count() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.5);
        assert_eq!((s.median, s.q1, s.q3, s.n, s.beyond), (3.0, 2.0, 4.0, 5, 2));
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = Summary::of(&values, 0.9);
        assert!((p90.value - 90.1).abs() < 1e-9);
        assert_eq!(p90.beyond, 10);
    }
}
