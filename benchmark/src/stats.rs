//! The statistics every reported number goes through: nearest-rank
//! percentiles with the ten-beyond rule, block-median throughput, and the
//! median / quartile spread used by `--aa`.

/// Samples that must lie beyond a reported percentile for it to be
/// trusted (choosing-metrics §1: "the highest percentile that has at least
/// ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples strictly after the chosen rank in sorted order.
    pub beyond: usize,
}

impl Percentile {
    /// Does the sample support this percentile under the ten-beyond rule?
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile: the value at 1-based rank `⌈p/100 · n⌉` of the
/// sorted sample.  `None` on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        beyond: n - rank,
    })
}

/// The median, averaging the two middle values of an even-sized sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Work and busy time of one equal-count block of the timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    pub ops: usize,
    /// Σ of the timed op and update durations in the block (checks and
    /// bookkeeping between ops are not in here).
    pub busy_secs: f64,
}

/// Sustained throughput as the median over blocks of `ops ÷ busy time`: a
/// noisy-neighbour stall moves one block, not the metric.
pub fn block_median_throughput(blocks: &[Block]) -> Option<f64> {
    let rates: Vec<f64> = blocks
        .iter()
        .filter(|b| b.busy_secs > 0.0)
        .map(|b| b.ops as f64 / b.busy_secs)
        .collect();
    median(&rates)
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the driver
/// uses to judge a metric's spread.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // CPython: j = k·(n+1) // 4 clamped to 1..n-1, delta = k·(n+1) − 4j
        // taken after the clamp (so tiny samples extrapolate).
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_the_ten_beyond_rule() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&hundred, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
        // Exactly 100 samples is the smallest sample that supports p90 …
        let p90 = percentile(&hundred, 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        assert!(p90.supported());
        // … 99 is not, and p99 needs 1000.
        let p90 = percentile(&hundred[..99], 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 9));
        assert!(!p90.supported());
        assert!(!percentile(&hundred, 99.0).unwrap().supported());
        // Order of arrival does not matter; ranks never leave the sample.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&shuffled, 50.0).unwrap().value, 3.0);
        assert_eq!(percentile(&shuffled, 100.0).unwrap().value, 5.0);
        assert_eq!(percentile(&shuffled, 0.0).unwrap().value, 1.0);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn block_median_ignores_one_stalled_block() {
        let mut blocks = vec![
            Block {
                ops: 100,
                busy_secs: 1.0
            };
            10
        ];
        assert_eq!(block_median_throughput(&blocks), Some(100.0));
        // A 20× stall in one block would drag a mean to ~34 ops/s.
        blocks[3].busy_secs = 20.0;
        assert_eq!(block_median_throughput(&blocks), Some(100.0));
        // Even block counts average the middle pair.
        let two = [
            Block {
                ops: 10,
                busy_secs: 1.0,
            },
            Block {
                ops: 30,
                busy_secs: 1.0,
            },
        ];
        assert_eq!(block_median_throughput(&two), Some(20.0));
        assert_eq!(block_median_throughput(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), Some((1.5, 12.0)));
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), Some((1.5, 10.5)));
        assert_eq!(median(&ten), Some(5.5));
        assert!((iqr_share(&ten).unwrap() - 1.0).abs() < 1e-12);
    }
}
