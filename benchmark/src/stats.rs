//! Percentiles over raw samples and over the server's log₂ histograms.

use std::collections::BTreeMap;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of all samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Sort `values` and return their nearest-rank median.
pub fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// The `q`-quantile (`0 < q ≤ 1`) of a log₂-bucket histogram given as
/// `{bucket lower bound → count}`, where the bucket starting at `lo`
/// covers `[lo, 2·lo)`. The position inside the bucket is interpolated
/// linearly by rank, so the estimate moves with the counts instead of
/// jumping between powers of two.
pub fn histogram_quantile(buckets: &BTreeMap<u64, u64>, q: f64) -> Option<f64> {
    let total: u64 = buckets.values().sum();
    if total == 0 {
        return None;
    }
    let target = (q * total as f64).ceil().max(1.0);
    let mut below = 0.0;
    for (&lo, &count) in buckets {
        let count = count as f64;
        if count > 0.0 && below + count >= target {
            let lo = lo.max(1) as f64;
            return Some(lo + lo * (target - below) / count);
        }
        below += count;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_inputs() {
        let one_to_hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&one_to_hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&one_to_hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&one_to_hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&one_to_hundred, 0.0), Some(1.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        // 99% of 10 samples is 9.9, so the rank is 10.
        assert_eq!(percentile(&ten, 99.0), Some(10.0));
        assert_eq!(percentile(&ten, 90.0), Some(9.0));
        assert_eq!(percentile(&[7.5], 99.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
        let mut odd = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), Some(2.0));
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), Some(2.0));
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_the_bucket() {
        let mut h = BTreeMap::new();
        h.insert(1024, 50);
        h.insert(2048, 50);
        // Rank 50 is the last sample of the first bucket: its top edge.
        assert_eq!(histogram_quantile(&h, 0.5), Some(2048.0));
        // Rank 99 sits 49/50 of the way through [2048, 4096).
        assert_eq!(
            histogram_quantile(&h, 0.99),
            Some(2048.0 + 2048.0 * 49.0 / 50.0)
        );
        assert_eq!(histogram_quantile(&BTreeMap::new(), 0.5), None);
    }
}
