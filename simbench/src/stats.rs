//! The one statistics helper every workload reports through.
//!
//! A latency summary gives the median, the highest percentile that still
//! has at least ten samples beyond it (none below forty samples, where
//! such a percentile would be no tail), the sample count and the
//! quartiles. Failed or refused operations are kept beside the samples:
//! each one counts as missing any latency limit.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: f64 = 10.0;

/// Below this many samples only the median is reported.
const MIN_TAIL_SAMPLES: usize = 40;

/// Summary of one latency distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Samples that completed and were timed.
    pub count: usize,
    /// Operations that failed or were refused (no latency sample).
    pub failed: u64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest supported tail, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples`; `failed` operations are carried beside them.
    /// `None` when there is no sample at all.
    pub fn of(samples: &[f64], failed: u64) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let tail = if n < MIN_TAIL_SAMPLES {
            None
        } else {
            TAIL_LADDER
                .iter()
                .find(|&&p| (n as f64) * (1.0 - p) >= TAIL_BEYOND - 1e-9)
                .map(|&p| (p, quantile(&sorted, p)))
        };
        Some(Summary {
            count: n,
            failed,
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail,
        })
    }

    /// Share of operations that met `limit`: a failed operation never
    /// does.
    pub fn share_within(samples: &[f64], failed: u64, limit: f64) -> f64 {
        let total = samples.len() as u64 + failed;
        if total == 0 {
            return 0.0;
        }
        samples.iter().filter(|&&s| s <= limit).count() as f64 / total as f64
    }
}

/// Linear-interpolated quantile of sorted data (the "inclusive" method).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted data; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples, 0).map(|s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_only_below_forty_samples() {
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        let s = Summary::of(&xs, 0).unwrap();
        assert_eq!(s.median, 20.0);
        assert_eq!(s.tail, None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&xs, 0).unwrap();
        assert_eq!(s.tail, Some((0.95, quantile(&xs, 0.95))));
        let few: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(Summary::of(&few, 0).unwrap().tail.map(|t| t.0), Some(0.90));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(
            Summary::of(&forty, 0).unwrap().tail.map(|t| t.0),
            Some(0.75)
        );
    }

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0], 2).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert_eq!(s.failed, 2);
    }

    #[test]
    fn failures_miss_every_limit() {
        assert_eq!(Summary::share_within(&[1.0, 2.0, 30.0], 1, 10.0), 0.5);
        assert_eq!(Summary::share_within(&[], 3, 10.0), 0.0);
    }
}
