//! Latency/throughput statistics for experiment runs.
//!
//! Every summary is exact: the samples are sorted and each quantile is the
//! nearest-rank sample ([`efactory_obs::nearest_rank`], the one quantile
//! rule the critical-path fold uses too).

use efactory_obs::nearest_rank;
use efactory_sim::Nanos;

/// Summary of a latency sample set (virtual nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: Nanos,
    /// 99th percentile.
    pub p99_ns: Nanos,
    /// 99.9th percentile.
    pub p999_ns: Nanos,
    /// Maximum.
    pub max_ns: Nanos,
}

impl LatencyStats {
    /// Summarize `samples` exactly (sorted in place).
    pub fn from_samples(samples: &mut [Nanos]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        LatencyStats {
            count,
            mean_ns: sum as f64 / count as f64,
            p50_ns: nearest_rank(samples, 50, 100),
            p99_ns: nearest_rank(samples, 99, 100),
            p999_ns: nearest_rank(samples, 999, 1000),
            max_ns: samples.last().copied().unwrap_or(0),
        }
    }

    /// Median in microseconds (table rendering).
    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1000.0
    }

    /// p99 in microseconds (table rendering).
    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1000.0
    }

    /// Mean in microseconds (table rendering).
    pub fn mean_us(&self) -> f64 {
        self.mean_ns / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_give_zeroes() {
        assert_eq!(LatencyStats::from_samples(&mut []), LatencyStats::default());
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let mut v: Vec<Nanos> = (1..=100).collect();
        let s = LatencyStats::from_samples(&mut v);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.p999_ns, 100);
        assert_eq!(s.max_ns, 100);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
    }

    #[test]
    fn large_sets_are_summarized_exactly() {
        // Above 100,000 samples the summary stays exact: no bucket edges.
        let mut v: Vec<Nanos> = (1..=110_000).rev().collect();
        let s = LatencyStats::from_samples(&mut v);
        assert_eq!(s.count, 110_000);
        assert_eq!((s.p50_ns, s.p99_ns, s.p999_ns), (55_000, 108_900, 109_890));
        assert_eq!(s.max_ns, 110_000);
        assert!((s.mean_ns - 55_000.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_handles_small_sets() {
        assert_eq!(nearest_rank(&[7], 50, 100), 7);
        assert_eq!(nearest_rank(&[7], 99, 100), 7);
        assert_eq!(nearest_rank(&[1, 2], 99, 100), 2);
        assert_eq!(
            nearest_rank(&[], 50, 100),
            0,
            "empty set summarizes to zero"
        );
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let mut v = vec![30, 10, 20];
        let s = LatencyStats::from_samples(&mut v);
        assert_eq!(s.p50_ns, 20);
        assert_eq!(s.max_ns, 30);
    }
}
